import hashlib
import itertools
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridbox.blobstore import BlobStore
from gridbox.errors import CorruptBlob, NotFound, StorageError
from gridbox.ids import IdMinter


@pytest.fixture
def store(tmp_path):
    return BlobStore(tmp_path, IdMinter("CAM", b"\x09" * 16))


@given(st.binary(min_size=1, max_size=1 << 16))
@settings(max_examples=60)
def test_get_put_roundtrip(tmp_path_factory, data):
    store = BlobStore(tmp_path_factory.mktemp("blob"), IdMinter("CAM", b"\x09" * 16))
    ref = store.put(data)
    assert store.get(ref) == data
    assert ref.sha256 == hashlib.sha256(data).hexdigest()
    assert ref.size == len(data)
    assert store.has(ref.sha256)


def test_put_is_idempotent_including_the_id(store):
    a = store.put(b"same bytes")
    b = store.put(b"same bytes")
    assert a == b
    assert a.id == b.id


def test_fanout_layout(store):
    ref = store.put(b"payload")
    expected = store.root / ref.sha256[:2] / ref.sha256[2:4] / ref.sha256
    assert expected.is_file()
    assert expected.read_bytes() == b"payload"


def test_empty_blob_rejected(store):
    with pytest.raises(StorageError):
        store.put(b"")


def test_missing_blob(store):
    with pytest.raises(NotFound):
        store.get("0" * 64)
    assert not store.has("0" * 64)


def test_bad_digest_string(store):
    with pytest.raises(StorageError):
        store.get("nothex")


def test_detects_on_disk_corruption(store):
    ref = store.put(b"original")
    path = store.root / ref.sha256[:2] / ref.sha256[2:4] / ref.sha256
    path.write_bytes(b"tampered")
    with pytest.raises(CorruptBlob):
        store.get(ref)


def test_no_temp_files_left_behind(store):
    for i in range(20):
        store.put(bytes([i]) * 100)
    leftovers = [p for p in store.root.rglob(".tmp-*")]
    assert leftovers == []


def test_concurrent_puts_of_same_content(store):
    data = b"x" * 4096
    refs = []
    errors = []

    def work():
        try:
            refs.append(store.put(data))
        except Exception as e:  # pragma: no cover - would fail the test below
            errors.append(e)

    threads = [threading.Thread(target=work) for _ in range(16)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert len({r.id for r in refs}) == 1
    assert store.get(refs[0]) == data


def test_two_sites_mint_different_file_ids(tmp_path):
    cam = BlobStore(tmp_path / "a", IdMinter("CAM", b"\x01" * 16))
    udi = BlobStore(tmp_path / "b", IdMinter("UDI", b"\x02" * 16))
    assert cam.put(b"data").id != udi.put(b"data").id
    assert cam.put(b"data").sha256 == udi.put(b"data").sha256


def two_blobs_of_one_fanout_directory() -> tuple[bytes, bytes]:
    """Two contents whose digests share their first four hex digits."""
    seen = {}
    for n in itertools.count():
        data = f"blob {n}".encode()
        prefix = hashlib.sha256(data).hexdigest()[:4]
        if prefix in seen:
            return seen[prefix], data
        seen[prefix] = data


def test_put_makes_a_missing_fanout_directory_and_puts_into_it_again(store):
    first, second = two_blobs_of_one_fanout_directory()
    sha = hashlib.sha256(first).hexdigest()
    directory = store.root / sha[:2] / sha[2:4]
    assert not directory.exists()
    assert store.get(store.put(first)) == first
    assert store.get(store.put(second, store.ref_for(second))) == second
    assert sorted(path.name for path in directory.iterdir()) == sorted(
        hashlib.sha256(data).hexdigest() for data in (first, second))
